//! Stationary small-signal noise analysis by the adjoint method.
//!
//! For each analysis frequency the output-referred noise PSD is
//!
//! ```text
//!   S_out(f) = Σ_sources |zᵀ·col_i|²   with   (G + jωC)ᴴ·z = e_out,
//! ```
//!
//! one adjoint solve per frequency covering *all* sources — the classic
//! efficiency trick, and the quantity the ROM-based noise evaluation of
//! Section 5 (and `rfsim-rom::noise_rom`) accelerates.

use crate::ac::complex_system;
use crate::dae::{Dae, NoiseSource};
use crate::netlist::NodeId;
use crate::Result;
use rfsim_numerics::sparse::Triplets;
use rfsim_numerics::Complex;

/// Output-referred noise spectrum.
#[derive(Debug, Clone)]
pub struct NoiseResult {
    /// Analysis frequencies (Hz).
    pub freqs: Vec<f64>,
    /// Total output noise PSD (V²/Hz) per frequency.
    pub total: Vec<f64>,
    /// Per-source contributions (source-major: `contrib[s][k]`).
    pub contributions: Vec<Vec<f64>>,
    /// Labels of the sources, aligned with `contributions`.
    pub labels: Vec<String>,
}

impl NoiseResult {
    /// Integrated noise power over the analysis band (trapezoid in linear
    /// frequency), in V².
    pub fn integrated(&self) -> f64 {
        if self.freqs.len() < 2 {
            return 0.0;
        }
        let mut acc = 0.0;
        for k in 0..self.freqs.len() - 1 {
            let df = self.freqs[k + 1] - self.freqs[k];
            acc += 0.5 * (self.total[k] + self.total[k + 1]) * df;
        }
        acc
    }
}

/// Computes the output noise PSD at node `out` across `freqs`, with the
/// circuit linearized at `x_op`.
///
/// # Errors
/// Propagates singular-matrix errors from the adjoint solves.
pub fn noise_sweep(dae: &dyn Dae, x_op: &[f64], out: NodeId, freqs: &[f64]) -> Result<NoiseResult> {
    let n = dae.dim();
    let mut f = vec![0.0; n];
    let mut q = vec![0.0; n];
    let mut gt = Triplets::new(n, n);
    let mut ct = Triplets::new(n, n);
    dae.eval(x_op, &mut f, &mut q, &mut gt, &mut ct);
    let g = gt.to_csr();
    let c = ct.to_csr();
    let sources: Vec<NoiseSource> = dae.noise_sources(x_op);
    let out_idx = out.index().checked_sub(1).expect("noise output cannot be ground");

    let mut total = vec![0.0; freqs.len()];
    let mut contributions = vec![vec![0.0; freqs.len()]; sources.len()];
    for (k, &fq) in freqs.iter().enumerate() {
        let omega = 2.0 * std::f64::consts::PI * fq;
        // Adjoint system Aᴴ·z = e_out. With e_out real, z = conj(y) for
        // Aᵀ·y = e_out, which A's own factors solve.
        let a = complex_system(&g, &c, omega);
        let mut e = vec![Complex::ZERO; n];
        e[out_idx] = Complex::ONE;
        let y = a.lu()?.solve_transposed(&e)?;
        for (s, src) in sources.iter().enumerate() {
            // Transfer from source current to output: zᴴ·col = Σ yᵢ·colᵢ
            // (col is real).
            let col = src.column(n, fq);
            let mut tf = Complex::ZERO;
            for i in 0..n {
                if col[i] != 0.0 {
                    tf += y[i] * Complex::from_re(col[i]);
                }
            }
            let p = tf.abs_sq();
            contributions[s][k] = p;
            total[k] += p;
        }
    }
    Ok(NoiseResult {
        freqs: freqs.to_vec(),
        total,
        contributions,
        labels: sources.iter().map(|s| s.label.clone()).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::{Circuit, BOLTZMANN};

    #[test]
    fn single_resistor_noise_is_4ktr() {
        // A resistor to ground, observed open-circuit: S_v = 4kTR.
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        ckt.add(Resistor::new("R1", n, Circuit::GROUND, 1e3));
        let dae = ckt.into_dae().unwrap();
        let res = noise_sweep(&dae, &[0.0; 1], n, &[1e3, 1e6, 1e9]).unwrap();
        let expect = 4.0 * BOLTZMANN * 300.0 * 1e3;
        for v in &res.total {
            assert!((v - expect).abs() / expect < 1e-9, "got {v}, want {expect}");
        }
    }

    #[test]
    fn parallel_resistors_noise_like_parallel_resistance() {
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        ckt.add(Resistor::new("R1", n, Circuit::GROUND, 2e3));
        ckt.add(Resistor::new("R2", n, Circuit::GROUND, 2e3));
        let dae = ckt.into_dae().unwrap();
        let res = noise_sweep(&dae, &[0.0; 1], n, &[1e6]).unwrap();
        let expect = 4.0 * BOLTZMANN * 300.0 * 1e3; // 2k ∥ 2k = 1k
        assert!((res.total[0] - expect).abs() / expect < 1e-9);
        // Two equal contributors.
        assert_eq!(res.contributions.len(), 2);
        assert!((res.contributions[0][0] - res.contributions[1][0]).abs() < 1e-30);
    }

    #[test]
    fn rc_filter_shapes_noise_and_integrates_to_kt_over_c() {
        // Classic kT/C: total integrated noise of an RC filter is kT/C,
        // independent of R.
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        ckt.add(Resistor::new("R1", n, Circuit::GROUND, 1e3));
        ckt.add(Capacitor::new("C1", n, Circuit::GROUND, 1e-12));
        let dae = ckt.into_dae().unwrap();
        // Corner at 1/(2πRC) ≈ 159 MHz: integrate well past it.
        let freqs: Vec<f64> = (0..20000).map(|i| 1e4 + i as f64 * 1e9 / 20000.0).collect();
        let res = noise_sweep(&dae, &[0.0; 1], n, &freqs).unwrap();
        let kt_c = BOLTZMANN * 300.0 / 1e-12;
        let integrated = res.integrated();
        // Finite band: expect within ~15% of kT/C (band covers ~6 corners).
        assert!(
            (integrated - kt_c).abs() / kt_c < 0.15,
            "integrated {integrated:.3e}, kT/C {kt_c:.3e}"
        );
        // Noise rolls off above the corner.
        assert!(res.total[0] > 10.0 * *res.total.last().unwrap());
    }

    #[test]
    fn flicker_corner_shapes_the_spectrum() {
        // A forward-biased diode with a 1/f corner: below the corner the
        // output noise rises ~10 dB/decade; well above it the spectrum is
        // flat (shot-limited).
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let d = ckt.node("d");
        ckt.add(VSource::dc("V1", a, Circuit::GROUND, 1.0));
        ckt.add(Resistor::new("R1", a, d, 1e3).noiseless());
        ckt.add(Diode::new("D1", d, Circuit::GROUND, 1e-14).with_flicker_corner(1e5));
        let dae = ckt.into_dae().unwrap();
        let op = crate::dc::dc_operating_point(&dae, &crate::dc::DcOptions::default()).unwrap();
        let res = noise_sweep(&dae, &op.x, d, &[1e3, 1e4, 1e7, 1e8]).unwrap();
        // Decade below corner vs two decades below: 10x PSD ratio.
        let low_ratio = res.total[0] / res.total[1];
        assert!((low_ratio - 10.0).abs() < 1.0, "1/f slope ratio {low_ratio}");
        // Far above the corner: flat.
        let high_ratio = res.total[2] / res.total[3];
        assert!((high_ratio - 1.0).abs() < 0.05, "white region ratio {high_ratio}");
    }

    #[test]
    fn noiseless_resistor_contributes_nothing() {
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        ckt.add(Resistor::new("R1", n, Circuit::GROUND, 1e3).noiseless());
        ckt.add(Resistor::new("R2", n, Circuit::GROUND, 1e3));
        let dae = ckt.into_dae().unwrap();
        let res = noise_sweep(&dae, &[0.0; 1], n, &[1e6]).unwrap();
        assert_eq!(res.labels.len(), 1);
        assert!(res.labels[0].contains("R2"));
    }
}
