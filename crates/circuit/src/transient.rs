//! Transient analysis: the conventional "SPICE-type time-domain" engine
//! the paper contrasts against its multi-scale methods.
//!
//! Supports backward Euler, trapezoidal, and Gear-2 (BDF2) integration with
//! local-truncation-error-based adaptive time stepping.

use crate::dae::{Dae, TwoTime};
use crate::newton::Newton;
use crate::Result;
use rfsim_numerics::norm_inf;
use rfsim_numerics::sparse::Triplets;
use rfsim_telemetry as telemetry;

/// Time integration formula.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Backward Euler (L-stable, 1st order, lossy).
    BackwardEuler,
    /// Trapezoidal rule (A-stable, 2nd order; SPICE default).
    #[default]
    Trapezoidal,
    /// Gear-2 / BDF2 (L-stable, 2nd order).
    Gear2,
}

/// Options for [`transient`].
#[derive(Debug, Clone, Copy)]
pub struct TranOptions {
    /// Integration formula.
    pub integrator: Integrator,
    /// Initial / maximum step when adaptive, fixed step otherwise.
    pub dt: f64,
    /// Enables LTE-based adaptive stepping.
    pub adaptive: bool,
    /// LTE tolerance for step control (per unknown, absolute).
    pub lte_tol: f64,
    /// Newton options for the per-step solves.
    pub newton: crate::dc::DcOptions,
    /// Use the DC operating point as the initial condition (otherwise
    /// start from zero state).
    pub start_from_dc: bool,
}

impl Default for TranOptions {
    fn default() -> Self {
        TranOptions {
            integrator: Integrator::Trapezoidal,
            dt: 1e-9,
            adaptive: false,
            lte_tol: 1e-6,
            newton: crate::dc::DcOptions::default(),
            start_from_dc: true,
        }
    }
}

/// Result of a transient run: time points and the full state at each.
#[derive(Debug, Clone)]
pub struct TranResult {
    /// Time points (s).
    pub times: Vec<f64>,
    /// State vectors, one per time point.
    pub states: Vec<Vec<f64>>,
    /// Total Newton iterations across all steps.
    pub newton_iterations: usize,
    /// Steps rejected by LTE control.
    pub rejected_steps: usize,
}

impl TranResult {
    /// Extracts the waveform of unknown `idx`.
    pub fn unknown(&self, idx: usize) -> Vec<f64> {
        self.states.iter().map(|s| s[idx]).collect()
    }

    /// Samples the waveform of unknown `idx` on a uniform grid of `n`
    /// points across `[t0, t1]` by linear interpolation (for FFTs).
    pub fn resample(&self, idx: usize, t0: f64, t1: f64, n: usize) -> Vec<f64> {
        let ys = self.unknown(idx);
        (0..n)
            .map(|k| {
                let t = t0 + (t1 - t0) * k as f64 / n as f64;
                rfsim_numerics::interp::lerp(&self.times, &ys, t)
            })
            .collect()
    }
}

/// Runs a transient analysis of `dae` from `t0` to `t1`.
///
/// # Errors
/// Propagates Newton convergence failures (after step-size rescue when
/// adaptive) and singular-matrix errors.
pub fn transient(dae: &dyn Dae, t0: f64, t1: f64, opts: &TranOptions) -> Result<TranResult> {
    let _span = telemetry::span("transient.run");
    let n = dae.dim();
    let x0 = if opts.start_from_dc {
        crate::dc::dc_operating_point(dae, &opts.newton)?.x
    } else {
        vec![0.0; n]
    };
    let mut times = vec![t0];
    let mut states = vec![x0.clone()];
    let mut newton_total = 0usize;
    let mut rejected = 0usize;

    // Each step solves `a0·q(x) + f(x) = b(t) + hist` for `x` on one
    // Newton kernel, where `a0` and `hist` encode the integration
    // formula's history. The buffers hold the DAE at the kernel's last
    // evaluation, which is at the `x` it leaves: first the DC point.
    let mut newton = Newton::default();
    let (mut f, mut q, mut c) = (vec![0.0; n], vec![0.0; n], Triplets::new(n, n));
    dae.eval(&x0, &mut f, &mut q, &mut Triplets::new(n, n), &mut c);
    let mut x_prev = x0;
    let mut q_prev = q.clone();
    // q̇(t0) = b(t0) − f(x0): consistent initialization.
    let mut b = vec![0.0; n];
    dae.eval_b(TwoTime::uni(t0), &mut b);
    let mut qdot_prev: Vec<f64> = (0..n).map(|i| b[i] - f[i]).collect();
    // Second history point for Gear2 (filled after the first step).
    let mut q_prev2: Option<Vec<f64>> = None;
    let mut h_prev = opts.dt;

    let mut t = t0;
    let mut h = opts.dt;
    while t < t1 - 1e-15 * t1.abs().max(1.0) {
        let h_eff = h.min(t1 - t);
        let t_new = t + h_eff;
        dae.eval_b(TwoTime::uni(t_new), &mut b);
        // History terms per formula.
        let (a0, hist): (f64, Vec<f64>) = match opts.integrator {
            Integrator::BackwardEuler => {
                let a0 = 1.0 / h_eff;
                (a0, q_prev.iter().map(|qp| qp * a0).collect())
            }
            Integrator::Trapezoidal => {
                let a0 = 2.0 / h_eff;
                (a0, (0..n).map(|i| a0 * q_prev[i] + qdot_prev[i]).collect())
            }
            Integrator::Gear2 => match &q_prev2 {
                Some(qp2) if (h_eff - h_prev).abs() < 1e-12 * h_eff => {
                    let a0 = 1.5 / h_eff;
                    (a0, (0..n).map(|i| (2.0 * q_prev[i] - 0.5 * qp2[i]) / h_eff).collect())
                }
                _ => {
                    // First step (or step change): fall back to BE.
                    let a0 = 1.0 / h_eff;
                    (a0, q_prev.iter().map(|qp| qp * a0).collect())
                }
            },
        };
        let mut x_new = x_prev.clone();
        let step = newton.solve(&mut x_new, &opts.newton, |x, r, jac| {
            // J = G + a0·C, with G stamped in place.
            dae.eval(x, &mut f, &mut q, jac, &mut c);
            for i in 0..n {
                r[i] = a0 * q[i] + f[i] - b[i] - hist[i];
            }
            for &(i, j, v) in c.entries() {
                jac.push(i, j, a0 * v);
            }
            opts.newton.abstol.max(1e-9 * norm_inf(&f))
        });
        let iters = match step {
            Ok(iters) => iters,
            Err(e) => {
                if opts.adaptive && h_eff > opts.dt * 1e-6 {
                    h = h_eff / 4.0;
                    rejected += 1;
                    continue;
                }
                return Err(e);
            }
        };
        newton_total += iters;
        let q_new = q.clone();
        let qdot_new: Vec<f64> = match opts.integrator {
            Integrator::BackwardEuler | Integrator::Gear2 => {
                (0..n).map(|i| (q_new[i] - q_prev[i]) / h_eff).collect()
            }
            Integrator::Trapezoidal => {
                (0..n).map(|i| 2.0 * (q_new[i] - q_prev[i]) / h_eff - qdot_prev[i]).collect()
            }
        };
        // LTE control: difference between the implicit solution's qdot and
        // a forward-Euler prediction, scaled — a standard cheap estimate.
        if opts.adaptive {
            let lte: f64 = (0..n)
                .map(|i| ((qdot_new[i] - qdot_prev[i]) * 0.5 * h_eff).abs())
                .fold(0.0, f64::max);
            if lte > opts.lte_tol && h_eff > opts.dt * 1e-6 {
                h = h_eff * (opts.lte_tol / lte).sqrt().clamp(0.1, 0.9);
                rejected += 1;
                continue;
            }
            // Accept and maybe grow.
            if lte < 0.1 * opts.lte_tol {
                h = (h_eff * 2.0).min(opts.dt);
            } else {
                h = h_eff;
            }
        }
        t = t_new;
        times.push(t);
        states.push(x_new.clone());
        q_prev2 = Some(std::mem::replace(&mut q_prev, q_new));
        qdot_prev = qdot_new;
        x_prev = x_new;
        h_prev = h_eff;
    }
    telemetry::counter_add("transient.steps", times.len() as u64 - 1);
    telemetry::counter_add("transient.rejected_steps", rejected as u64);
    telemetry::counter_add("transient.newton.iterations", newton_total as u64);
    telemetry::histogram_record(
        "transient.newton.iterations_per_step",
        if times.len() > 1 { newton_total as f64 / (times.len() - 1) as f64 } else { 0.0 },
    );
    Ok(TranResult { times, states, newton_iterations: newton_total, rejected_steps: rejected })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::Circuit;

    fn rc_circuit(r: f64, c: f64, v: f64) -> (crate::CircuitDae, usize) {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(VSource::dc("V1", a, Circuit::GROUND, v));
        ckt.add(Resistor::new("R1", a, b, r));
        ckt.add(Capacitor::new("C1", b, Circuit::GROUND, c));
        let dae = ckt.into_dae().unwrap();
        let idx = dae.node_index(b).unwrap();
        (dae, idx)
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        // Start from zero state, drive 1 V: v(t) = 1 − e^{−t/RC}.
        let (dae, out) = rc_circuit(1e3, 1e-6, 1.0);
        let tau = 1e-3;
        for integ in [Integrator::BackwardEuler, Integrator::Trapezoidal, Integrator::Gear2] {
            let opts = TranOptions {
                integrator: integ,
                dt: tau / 200.0,
                start_from_dc: false,
                ..Default::default()
            };
            let res = transient(&dae, 0.0, 3.0 * tau, &opts).unwrap();
            let v_end = res.states.last().unwrap()[out];
            let expected = 1.0 - (-3.0f64).exp();
            let tol = match integ {
                Integrator::BackwardEuler => 2e-2, // 1st order
                _ => 1e-3,
            };
            assert!(
                (v_end - expected).abs() < tol,
                "{integ:?}: v_end = {v_end}, expected {expected}"
            );
        }
    }

    #[test]
    fn trapezoidal_is_second_order() {
        let (dae, out) = rc_circuit(1e3, 1e-6, 1.0);
        let tau = 1e-3;
        let expected = 1.0 - (-1.0f64).exp();
        let mut errs = Vec::new();
        for steps in [25.0, 50.0, 100.0] {
            let opts = TranOptions {
                integrator: Integrator::Trapezoidal,
                dt: tau / steps,
                start_from_dc: false,
                ..Default::default()
            };
            let res = transient(&dae, 0.0, tau, &opts).unwrap();
            errs.push((res.states.last().unwrap()[out] - expected).abs());
        }
        // Halving h should reduce error ~4x.
        assert!(errs[0] / errs[1] > 3.0, "ratio {:.2}", errs[0] / errs[1]);
        assert!(errs[1] / errs[2] > 3.0, "ratio {:.2}", errs[1] / errs[2]);
    }

    #[test]
    fn gear2_is_second_order_and_damps_less_than_be() {
        let (dae, out) = rc_circuit(1e3, 1e-6, 1.0);
        let tau = 1e-3;
        let expected = 1.0 - (-1.0f64).exp();
        let err_of = |steps: f64| {
            let opts = TranOptions {
                integrator: Integrator::Gear2,
                dt: tau / steps,
                start_from_dc: false,
                ..Default::default()
            };
            let res = transient(&dae, 0.0, tau, &opts).unwrap();
            (res.states.last().unwrap()[out] - expected).abs()
        };
        let e50 = err_of(50.0);
        let e100 = err_of(100.0);
        // Second order: halving h cuts the error ~4x (the BE start-up step
        // costs a little, so accept > 3).
        assert!(e50 / e100 > 3.0, "gear2 order ratio {:.2}", e50 / e100);
        // And Gear2 beats BE at equal step count.
        let be = TranOptions {
            integrator: Integrator::BackwardEuler,
            dt: tau / 100.0,
            start_from_dc: false,
            ..Default::default()
        };
        let res_be = transient(&dae, 0.0, tau, &be).unwrap();
        let e_be = (res_be.states.last().unwrap()[out] - expected).abs();
        assert!(e100 < e_be / 3.0, "gear2 {e100:.2e} vs BE {e_be:.2e}");
    }

    #[test]
    fn lc_oscillation_energy_trap() {
        // Ideal LC tank with initial condition via current source kick-off:
        // drive briefly then observe ringing; trapezoidal should conserve
        // amplitude well over a few cycles.
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        ckt.add(Inductor::new("L1", n, Circuit::GROUND, 1e-6));
        ckt.add(Capacitor::new("C1", n, Circuit::GROUND, 1e-9));
        ckt.add(ISource::new(
            "I1",
            Circuit::GROUND,
            n,
            Stimulus::Pulse {
                low: 0.0,
                high: 1e-3,
                delay: 0.0,
                rise: 1e-9,
                fall: 1e-9,
                width: 50e-9,
                period: 1.0,
                scale: TimeScale::Slow,
            },
        ));
        let dae = ckt.into_dae().unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-6f64 * 1e-9).sqrt());
        let period = 1.0 / f0;
        let opts = TranOptions {
            integrator: Integrator::Trapezoidal,
            dt: period / 100.0,
            start_from_dc: false,
            ..Default::default()
        };
        let res = transient(&dae, 0.0, 10.0 * period, &opts).unwrap();
        let v = res.unknown(0);
        // Peak in cycles 2–3 vs cycles 8–9 should be within a few percent.
        let seg = (period / (period / 100.0)) as usize; // samples per period
        let early: f64 = v[2 * seg..3 * seg].iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let late: f64 = v[8 * seg..9 * seg].iter().fold(0.0f64, |m, x| m.max(x.abs()));
        assert!(early > 0.0);
        assert!((late / early - 1.0).abs() < 0.05, "early {early} late {late}");
    }

    #[test]
    fn sine_drive_amplitude() {
        // RC low-pass driven well below corner passes the sine through.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(VSource::sine("V1", a, Circuit::GROUND, 0.0, 1.0, 1e3));
        ckt.add(Resistor::new("R1", a, b, 1e3));
        ckt.add(Capacitor::new("C1", b, Circuit::GROUND, 1e-9)); // corner 160 kHz
        let dae = ckt.into_dae().unwrap();
        let out = 1;
        let opts = TranOptions { dt: 1e-6 / 2.0, ..Default::default() };
        let res = transient(&dae, 0.0, 3e-3, &opts).unwrap();
        let v = res.unknown(out);
        let peak = v[v.len() / 2..].iter().fold(0.0f64, |m, x| m.max(x.abs()));
        assert!((peak - 1.0).abs() < 0.02, "peak = {peak}");
    }

    #[test]
    fn adaptive_stepping_accepts_and_rejects() {
        let (dae, out) = rc_circuit(1e3, 1e-6, 1.0);
        let opts = TranOptions {
            dt: 2e-4, // large: adaptivity must cut it near t=0
            adaptive: true,
            lte_tol: 1e-4,
            start_from_dc: false,
            ..Default::default()
        };
        let res = transient(&dae, 0.0, 5e-3, &opts).unwrap();
        let v_end = res.states.last().unwrap()[out];
        assert!((v_end - (1.0 - (-5.0f64).exp())).abs() < 1e-2);
        assert!(res.rejected_steps > 0, "expected some rejections");
    }

    #[test]
    fn resample_uniform() {
        let (dae, out) = rc_circuit(1e3, 1e-6, 1.0);
        let opts = TranOptions { dt: 1e-5, start_from_dc: false, ..Default::default() };
        let res = transient(&dae, 0.0, 1e-3, &opts).unwrap();
        let samples = res.resample(out, 0.0, 1e-3, 64);
        assert_eq!(samples.len(), 64);
        // Monotone rising charge curve.
        assert!(samples.windows(2).all(|w| w[1] >= w[0] - 1e-12));
    }
}
