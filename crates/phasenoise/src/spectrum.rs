//! Phase-noise characterisation from the PPV: the scalar diffusion
//! constant `c`, linearly growing jitter, the Lorentzian spectrum with
//! finite carrier power, and the (incorrect) LTV prediction for contrast.
//!
//! Key results reproduced from the paper's Section 3:
//!
//! - mean-square jitter "increases without bound (precisely linearly for
//!   shot and thermal noise) with time": `σ²(t) = c·t`;
//! - "the power spectrum of the perturbed oscillator has a finite value at
//!   the carrier frequency and its harmonics, and the total carrier power
//!   is preserved": the Lorentzian [`lorentzian_psd`] integrates to the
//!   unperturbed harmonic power;
//! - "previous analyses based on LTI or LTV concepts erroneously predict
//!   infinite noise power density at the carrier, as well as infinite
//!   total integrated power": [`ltv_psd`] is that divergent prediction;
//! - "the separate contributions of noise sources … can be obtained
//!   easily": [`PhaseNoiseAnalysis::per_source`].

use crate::ppv::Ppv;
use crate::pss::PssResult;
use crate::Result;
use rfsim_circuit::dae::Dae;

/// Result of the PPV-based phase-noise computation.
#[derive(Debug, Clone)]
pub struct PhaseNoiseAnalysis {
    /// Scalar phase diffusion constant `c` (s²/s = s).
    pub c: f64,
    /// Per-source contributions to `c`, with labels.
    pub contributions: Vec<(String, f64)>,
    /// Oscillation frequency (Hz).
    pub f0: f64,
    /// Carrier (first harmonic) peak amplitude of the observed state.
    pub carrier_amplitude: f64,
}

impl PhaseNoiseAnalysis {
    /// Runs the full analysis for the given oscillator, orbit, and PPV,
    /// observing state `observe` for the carrier amplitude.
    ///
    /// The diffusion constant is
    /// `c = (1/T)·∫₀ᵀ v₁ᵀ(t)·B(x(t))·Bᵀ(x(t))·v₁(t) dt`, with `B` rebuilt
    /// at each orbit point so operating-point-dependent noise (shot noise)
    /// is modulated correctly (cyclostationary noise handling).
    ///
    /// # Errors
    /// Currently infallible in practice; returns `Result` for parity with
    /// the other constructors.
    pub fn new(dae: &dyn Dae, pss: &PssResult, ppv: &Ppv, observe: usize) -> Result<Self> {
        let n = dae.dim();
        let samples = ppv.vecs.len() - 1; // last duplicates first
        let mut labels: Vec<String> = Vec::new();
        let mut integrals: Vec<f64> = Vec::new();
        for s in 0..samples {
            let x = &pss.states[s];
            let v1 = &ppv.vecs[s];
            let sources = dae.noise_sources(x);
            if labels.is_empty() {
                labels = sources.iter().map(|ns| ns.label.clone()).collect();
                integrals = vec![0.0; sources.len()];
            }
            for (i, src) in sources.iter().enumerate() {
                // v₁ᵀ·col, col = √S·(e_from − e_to); evaluate white part at
                // 1 Hz (white ⇒ frequency-independent).
                let col = src.column(n, 1.0);
                let dot: f64 = v1.iter().zip(&col).map(|(a, b)| a * b).sum();
                integrals[i] += dot * dot;
            }
        }
        let dt = pss.period / samples as f64;
        let contributions: Vec<(String, f64)> =
            labels.into_iter().zip(integrals.iter().map(|v| v * dt / pss.period)).collect();
        let c = contributions.iter().map(|(_, v)| v).sum();
        Ok(PhaseNoiseAnalysis {
            c,
            contributions,
            f0: pss.freq(),
            carrier_amplitude: pss.amplitude(observe, 1),
        })
    }

    /// Per-source contributions sorted descending — the sensitivity
    /// breakdown designers use to find the dominant noise source.
    pub fn per_source(&self) -> Vec<(String, f64)> {
        let mut v = self.contributions.clone();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite contributions"));
        v
    }

    /// Single-sideband phase noise `L(Δf)` in dBc/Hz at offset `df` from
    /// the carrier.
    pub fn l_dbc_hz(&self, df: f64) -> f64 {
        phase_noise_dbc(df, self.c, self.f0)
    }
}

/// Lorentzian PSD of harmonic `k` at offset `df` from `k·f0`, normalized
/// so that the total power (integral over all offsets) equals
/// `carrier_power` — the finite-at-carrier spectrum of the correct theory.
///
/// `S(df) = P·(γ/π)/(γ² + df²)` with half-width `γ = π·k²·f0²·c`.
pub fn lorentzian_psd(df: f64, k: i32, c: f64, f0: f64, carrier_power: f64) -> f64 {
    let gamma = std::f64::consts::PI * (k * k) as f64 * f0 * f0 * c;
    carrier_power * (gamma / std::f64::consts::PI) / (gamma * gamma + df * df)
}

/// The LTV (linear time-varying) prediction for the same sideband: the
/// Lorentzian's `1/df²` tail extended all the way to the carrier. It
/// matches the Lorentzian for `df ≫ γ` but diverges as `df → 0` — the
/// non-physical infinite carrier power the paper calls out.
pub fn ltv_psd(df: f64, k: i32, c: f64, f0: f64, carrier_power: f64) -> f64 {
    let kk = (k * k) as f64;
    carrier_power * kk * f0 * f0 * c / (df * df)
}

/// Single-sideband phase noise `L(Δf) = 10·log₁₀(S₁(Δf)/P₁)` in dBc/Hz.
pub fn phase_noise_dbc(df: f64, c: f64, f0: f64) -> f64 {
    let gamma = std::f64::consts::PI * f0 * f0 * c;
    10.0 * ((gamma / std::f64::consts::PI) / (gamma * gamma + df * df)).log10()
}

/// Mean-square timing jitter after elapsed time `t`: `σ²(t) = c·t`
/// (variance of the phase deviation, in s²).
pub fn jitter_variance(c: f64, t: f64) -> f64 {
    c * t
}

/// Numerically integrates a PSD over `[f_lo, f_hi]` (log-spaced trapezoid,
/// both sidebands). Used to demonstrate power conservation vs. LTV
/// divergence.
pub fn total_sideband_power(psd: impl Fn(f64) -> f64, f_lo: f64, f_hi: f64, points: usize) -> f64 {
    assert!(f_lo > 0.0 && f_hi > f_lo && points >= 2, "bad band");
    let l0 = f_lo.ln();
    let l1 = f_hi.ln();
    let mut acc = 0.0;
    let mut prev_f = f_lo;
    let mut prev_v = psd(f_lo);
    for i in 1..points {
        let f = (l0 + (l1 - l0) * i as f64 / (points - 1) as f64).exp();
        let v = psd(f);
        acc += 0.5 * (prev_v + v) * (f - prev_f);
        prev_f = f;
        prev_v = v;
    }
    2.0 * acc // both sidebands
}

/// Verifies that an oscillator's output phase-noise behaviour follows the
/// theory; convenience wrapper returning the analysis for a model with an
/// `initial_guess`-style interface.
///
/// # Errors
/// Propagates PSS/PPV failures.
pub fn analyze(
    dae: &dyn Dae,
    guess: (Vec<f64>, f64),
    observe: usize,
    pss_opts: &crate::pss::PssOptions,
) -> Result<(PssResult, Ppv, PhaseNoiseAnalysis)> {
    let pss = crate::pss::oscillator_pss(dae, guess, pss_opts)?;
    let ppv = crate::ppv::compute_ppv(dae, &pss)?;
    let pn = PhaseNoiseAnalysis::new(dae, &pss, &ppv, observe)?;
    Ok((pss, ppv, pn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oscillator::{LcOscillator, VanDerPol};
    use crate::pss::PssOptions;

    #[test]
    fn lorentzian_conserves_power() {
        let (c, f0, p) = (1e-18, 1e9, 0.5);
        let gamma = std::f64::consts::PI * f0 * f0 * c; // ≈ 3.1 Hz
        let total = total_sideband_power(
            |df| lorentzian_psd(df, 1, c, f0, p),
            gamma * 1e-4,
            gamma * 1e7,
            4000,
        );
        // Two-sided integral ≈ carrier power (tails truncated).
        assert!((total - p).abs() / p < 0.02, "total {total} vs {p}");
    }

    #[test]
    fn ltv_diverges_at_carrier() {
        let (c, f0, p) = (1e-18, 1e9, 0.5);
        let band = |lo: f64| total_sideband_power(|df| ltv_psd(df, 1, c, f0, p), lo, 1e6, 2000);
        // Shrinking the lower limit grows the LTV power without bound.
        assert!(band(1e-2) > 10.0 * band(1e2));
        // The Lorentzian stays finite at the carrier itself.
        let at_carrier = lorentzian_psd(0.0, 1, c, f0, p);
        assert!(at_carrier.is_finite());
        assert!(ltv_psd(1e-12, 1, c, f0, p) > 1e6 * at_carrier);
    }

    #[test]
    fn ltv_matches_lorentzian_far_out() {
        let (c, f0, p) = (1e-18, 1e9, 1.0);
        let gamma = std::f64::consts::PI * f0 * f0 * c;
        let df = 1e4 * gamma;
        let lo = lorentzian_psd(df, 1, c, f0, p);
        let ltv = ltv_psd(df, 1, c, f0, p);
        assert!((lo / ltv - 1.0).abs() < 1e-6, "ratio {}", lo / ltv);
    }

    #[test]
    fn jitter_grows_linearly() {
        let c = 3e-19;
        assert_eq!(jitter_variance(c, 2.0), 2.0 * jitter_variance(c, 1.0));
    }

    #[test]
    fn harmonic_lc_c_matches_analytic() {
        // Nearly harmonic LC: v(t) = A·cos(ωt) with state noise intensity
        // s on v̇: v₁ has |v₁ᵀB|² averaging s/(2A²ω²)·(1/C²)… our model
        // injects PSD = noise/C² on state 0, so
        // c ≈ (noise/C²)·⟨v₁,₀²⟩ = (noise/C²)/(2A²ω²).
        let noise = 1e-24;
        let osc = LcOscillator::new(1e-6, 1e-9, 1e-3, 1e-4, noise);
        let (pss, _ppv, pn) =
            analyze(&osc, osc.initial_guess(), 0, &PssOptions::default()).unwrap();
        let a = pss.amplitude(0, 1);
        let omega = 2.0 * std::f64::consts::PI * pss.freq();
        let c_analytic = (noise / (1e-9f64 * 1e-9)) / (2.0 * a * a * omega * omega);
        assert!(
            (pn.c - c_analytic).abs() / c_analytic < 0.2,
            "c {} vs analytic {}",
            pn.c,
            c_analytic
        );
    }

    #[test]
    fn contributions_sum_to_total() {
        let osc = VanDerPol::new(0.8, 1e-6);
        let (_, _, pn) = analyze(&osc, osc.initial_guess(), 0, &PssOptions::default()).unwrap();
        let sum: f64 = pn.contributions.iter().map(|(_, v)| v).sum();
        assert!((sum - pn.c).abs() < 1e-18 * (1.0 + pn.c.abs()));
        assert!(!pn.per_source().is_empty());
    }

    #[test]
    fn l_dbc_slope_is_minus_20_per_decade() {
        let (c, f0) = (1e-20, 1e9);
        let l1 = phase_noise_dbc(1e4, c, f0);
        let l2 = phase_noise_dbc(1e5, c, f0);
        assert!((l1 - l2 - 20.0).abs() < 0.1, "slope {}", l1 - l2);
    }
}
