//! Multivariate Finite-Difference Time Domain (MFDTD): the MPDE discretized
//! with backward differences on both axes of a biperiodic `t₁ × t₂` grid.
//!
//! "Appropriate for circuits with no sinusoidal waveform components, such
//! as power converters" — the backward-difference operators put no
//! smoothness assumption on either axis, at the price of first-order
//! accuracy. Optional slow-axis refinement doubles `n1` until the solution
//! stops changing (the paper's adaptive-grid remark).

use crate::bivariate::BivariateWaveform;
use crate::grid::{GridProblem, GridStats, SlowOp};
use crate::Result;
use rfsim_circuit::dae::Dae;
use rfsim_circuit::dc::DcOptions;

/// Options for [`solve_mfdtd`].
#[derive(Debug, Clone)]
pub struct MfdtdOptions {
    /// Grid points along the slow axis.
    pub n1: usize,
    /// Grid points along the fast axis.
    pub n2: usize,
    /// Newton residual tolerance.
    pub tol: f64,
    /// Maximum Newton iterations.
    pub max_newton: usize,
    /// Adaptive slow-axis refinement: double `n1` until the waveform
    /// change is below `refine_tol` (0 disables).
    pub refine_tol: f64,
    /// Maximum refinement rounds.
    pub max_refine: usize,
    /// DC options for the initial guess.
    pub dc: DcOptions,
}

impl Default for MfdtdOptions {
    fn default() -> Self {
        MfdtdOptions {
            n1: 16,
            n2: 32,
            tol: 1e-8,
            max_newton: 40,
            refine_tol: 0.0,
            max_refine: 3,
            dc: DcOptions::default(),
        }
    }
}

/// Solves the biperiodic MPDE with backward differences on both axes.
///
/// `t1_period` and `t2_period` are the slow/fast periods the excitation's
/// bivariate form uses.
///
/// # Errors
/// [`crate::Error::NoConvergence`] if the grid Newton iteration stalls.
pub fn solve_mfdtd(
    dae: &dyn Dae,
    t1_period: f64,
    t2_period: f64,
    opts: &MfdtdOptions,
) -> Result<(BivariateWaveform, GridStats)> {
    let _span = rfsim_telemetry::span("mpde.mfdtd");
    let mut n1 = opts.n1;
    let problem =
        GridProblem { dae, t1_period, t2_period, n1, n2: opts.n2, slow: SlowOp::BackwardDiff };
    let (mut wave, mut stats) = problem.solve(opts.tol, opts.max_newton, &opts.dc)?;
    if opts.refine_tol > 0.0 {
        for _round in 0..opts.max_refine {
            n1 *= 2;
            let problem = GridProblem {
                dae,
                t1_period,
                t2_period,
                n1,
                n2: opts.n2,
                slow: SlowOp::BackwardDiff,
            };
            let (w2, s2) = problem.solve(opts.tol, opts.max_newton, &opts.dc)?;
            // Compare on the coarse grid's points.
            let mut diff = 0.0f64;
            for i1 in 0..wave.n1 {
                for i2 in 0..wave.n2 {
                    for k in 0..wave.n {
                        diff = diff.max((wave.at(i1, i2, k) - w2.at(2 * i1, i2, k)).abs());
                    }
                }
            }
            stats = GridStats {
                newton_iterations: stats.newton_iterations + s2.newton_iterations,
                unknowns: s2.unknowns,
            };
            let done = diff < opts.refine_tol;
            wave = w2;
            if done {
                break;
            }
        }
    }
    Ok((wave, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim_circuit::prelude::*;
    use rfsim_circuit::Circuit;

    /// Linear RC driven by slow+fast tones: the bivariate solution's
    /// diagonal must match a brute-force transient.
    #[test]
    fn two_tone_rc_matches_transient() {
        let (f1, f2) = (1e4, 1e6);
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.add(VSource::multi_tone(
            "V1",
            a,
            Circuit::GROUND,
            0.0,
            vec![(Tone::new(0.5, f1), TimeScale::Slow), (Tone::new(0.5, f2), TimeScale::Fast)],
        ));
        ckt.add(Resistor::new("R1", a, out, 1e3));
        ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 2e-10));
        let dae = ckt.into_dae().unwrap();
        let opts = MfdtdOptions { n1: 32, n2: 64, ..Default::default() };
        let (wave, stats) = solve_mfdtd(&dae, 1.0 / f1, 1.0 / f2, &opts).unwrap();
        assert!(stats.unknowns > 0);
        // Brute-force transient over one slow period, after settling.
        let tran = transient(
            &dae,
            0.0,
            2.0 / f1,
            &TranOptions { dt: 1.0 / f2 / 64.0, ..Default::default() },
        )
        .unwrap();
        let oi = dae.node_index(out).unwrap();
        // Compare at a handful of times in the second slow period.
        let mut worst = 0.0f64;
        for j in 0..40 {
            let t = 1.0 / f1 + j as f64 * (1.0 / f1) / 40.0;
            let tr = rfsim_numerics::interp::lerp(&tran.times, &tran.unknown(oi), t);
            let bi = wave.eval(t, t, oi);
            worst = worst.max((tr - bi).abs());
        }
        // First-order method on a 64-point fast grid: expect few-percent.
        assert!(worst < 0.05, "worst mismatch {worst}");
    }

    /// Switching (square LO) drive: MFDTD must capture the discontinuous
    /// fast-axis waveform and the slow modulation.
    #[test]
    fn switched_rc_bivariate_structure() {
        let (f1, f2) = (1e3, 1e6);
        let mut ckt = Circuit::new();
        let sw = ckt.node("sw");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        // Slow sine input, fast square "LO", multiplier as chopper.
        ckt.add(VSource::sine("VIN", inp, Circuit::GROUND, 0.0, 1.0, f1));
        ckt.add(VSource::square_lo("VLO", sw, Circuit::GROUND, 1.0, f2));
        // Negative gain compensates the current-into-load inversion so
        // v(out) = +v(in)·v(sw).
        ckt.add(Multiplier::new(
            "CHOP",
            out,
            Circuit::GROUND,
            inp,
            Circuit::GROUND,
            sw,
            Circuit::GROUND,
            -1e-3,
        ));
        ckt.add(Resistor::new("RL", out, Circuit::GROUND, 1e3).noiseless());
        let dae = ckt.into_dae().unwrap();
        let opts = MfdtdOptions { n1: 16, n2: 32, ..Default::default() };
        let (wave, _) = solve_mfdtd(&dae, 1.0 / f1, 1.0 / f2, &opts).unwrap();
        let oi = dae.node_index(out).unwrap();
        // Chopped output: at slow peak (t1 = T1/4), fast waveform is a
        // square of amplitude gain·1V·1V·R = 1.0.
        let i_peak = 4; // n1/4
        let early = wave.at(i_peak, 3, oi);
        let late = wave.at(i_peak, 20, oi);
        assert!(early > 0.5, "first half-period should be positive, got {early}");
        assert!(late < -0.5, "second half-period should be negative, got {late}");
        // At the slow zero crossing the output vanishes.
        let zero = wave.at(0, 3, oi);
        assert!(zero.abs() < 0.1, "zero crossing: {zero}");
    }

    /// The paper's named MFDTD/MMFT application beyond mixers: a
    /// switched-capacitor integrator. A MOSFET switch chopped by a fast
    /// clock transfers charge packets; the slow input is tracked with an
    /// effective resistance `1/(f_clk·C_s)`.
    #[test]
    fn switched_capacitor_filter() {
        let (f1, f2) = (1e3, 1e6); // signal, clock
        let (c_s, c_h) = (1e-12, 20e-12);
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let clk = ckt.node("clk");
        let mid = ckt.node("mid");
        let out = ckt.node("out");
        ckt.add(VSource::sine("VIN", inp, Circuit::GROUND, 0.5, 0.2, f1));
        // Clock swings 0..3 V on the fast axis.
        ckt.add(VSource::new(
            "VCLK",
            clk,
            Circuit::GROUND,
            Stimulus::Square {
                offset: 1.5,
                amplitude: 1.5,
                period: 1.0 / f2,
                scale: TimeScale::Fast,
            },
        ));
        // Switch: NMOS pass transistor clocked hard on/off.
        ckt.add(Mosfet::nmos("MSW", inp, clk, mid, 0.7, 5e-3));
        ckt.add(Capacitor::new("CS", mid, Circuit::GROUND, c_s));
        // Second switch on the complementary phase would complete a true
        // SC resistor; a leak resistor models the transfer to the holding
        // cap without doubling the fast grid.
        ckt.add(Resistor::new("RT", mid, out, 50e3).noiseless());
        ckt.add(Capacitor::new("CH", out, Circuit::GROUND, c_h));
        let dae = ckt.into_dae().unwrap();
        let opts = MfdtdOptions { n1: 16, n2: 40, max_newton: 60, ..Default::default() };
        let (wave, _) = solve_mfdtd(&dae, 1.0 / f1, 1.0 / f2, &opts).unwrap();
        let oi = dae.node_index(out).unwrap();
        let mi = dae.node_index(mid).unwrap();
        // The sampling node tracks the input while the clock is high: at a
        // slow sample where vin ≈ 0.7, mid's clock-high average ≈ 0.7.
        let i1 = 4; // slow quarter-period: vin = 0.5 + 0.2 = 0.7
        let clock_high: f64 = (0..10).map(|j| wave.at(i1, j + 2, mi)).sum::<f64>() / 10.0;
        assert!((clock_high - 0.7).abs() < 0.08, "tracked {clock_high}");
        // The held output follows the slow input mean with ripple ≪ swing.
        let out_avg: f64 = (0..40).map(|j| wave.at(i1, j, oi)).sum::<f64>() / 40.0;
        assert!((out_avg - 0.5).abs() < 0.25, "out avg {out_avg}");
        let out_ripple =
            (0..40).map(|j| (wave.at(i1, j, oi) - out_avg).abs()).fold(0.0f64, f64::max);
        assert!(out_ripple < 0.02, "ripple {out_ripple}");
    }

    /// Refinement reduces the change between successive grids.
    #[test]
    fn refinement_converges() {
        let (f1, f2) = (1e4, 1e6);
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.add(VSource::multi_tone(
            "V1",
            a,
            Circuit::GROUND,
            0.0,
            vec![(Tone::new(1.0, f1), TimeScale::Slow), (Tone::new(0.2, f2), TimeScale::Fast)],
        ));
        ckt.add(Resistor::new("R1", a, out, 1e3));
        ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-10));
        let dae = ckt.into_dae().unwrap();
        let opts =
            MfdtdOptions { n1: 8, n2: 16, refine_tol: 5e-2, max_refine: 3, ..Default::default() };
        let (wave, _) = solve_mfdtd(&dae, 1.0 / f1, 1.0 / f2, &opts).unwrap();
        // Refinement ran: n1 grew beyond the initial 8.
        assert!(wave.n1 > 8);
    }
}
