//! `hb_chain`: one-shot two-tone harmonic balance of a 32-stage mixer
//! ladder (paper §2.1). Dense block LU, batched FFTs, GMRES and the SIMD
//! kernels do all the work; sparse LU and the service do none.

use crate::layers::{span, Samples};
use crate::library::Workload;
use crate::rng::Rng;
use rfsim_circuit::prelude::*;
use rfsim_steady::{solve_hb, HbOptions, HbSolution, SpectralGrid, ToneAxis};
use rfsim_telemetry as telemetry;

/// Buffered RF sections after the mixer: 37 circuit unknowns, 4,477 HB
/// unknowns on the 5×5 two-tone grid.
pub const STAGES: usize = 32;
/// Harmonics per tone.
pub const HARMONICS: usize = 5;
const F_BB: f64 = 1e6;
const F_LO: f64 = 100e6;
/// Distinct drawn inputs; ops cycle through them.
const INPUTS: usize = 64;
/// Relative error allowed on the mixer products. The mixer node is a
/// linear function of the two sources, so HB reproduces it to solver
/// tolerance; a wrong product is off by far more.
const PRODUCT_TOL: f64 = 1e-6;

/// The drawn imperfections of one op's mixer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainInput {
    /// Conversion-gain error ε: the sidebands sit at `0.5·(1+ε)` V.
    pub gain_error: f64,
    /// LO feedthrough: the carrier sits at `lo_leak` V.
    pub lo_leak: f64,
}

/// A solved chain and the index of its mixer node.
pub struct ChainOutput {
    /// The HB solution.
    pub sol: HbSolution,
    /// Unknown index of the mixer node.
    pub mix: usize,
}

/// The workload: the shared spectral grid and the drawn inputs.
pub struct HbChain {
    grid: SpectralGrid,
    inputs: Vec<ChainInput>,
}

impl Workload for HbChain {
    type Input = ChainInput;
    type Output = ChainOutput;
    const LAYER_SPANS: &'static [&'static str] = &[span::CIRCUIT_BUILD, span::STEADY_HB];
    /// Dense block LU, FFTs and GMRES: the dense loops alone track it.
    const PACE_READ_PASSES: usize = 0;

    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0);
        let inputs = (0..INPUTS)
            .map(|_| ChainInput {
                gain_error: rng.range(-0.05, 0.05),
                lo_leak: rng.log_range(1e-4, 1e-2),
            })
            .collect();
        let grid =
            SpectralGrid::two_tone(ToneAxis::new(F_BB, HARMONICS), ToneAxis::new(F_LO, HARMONICS))
                .expect("5×5 two-tone grid is valid");
        HbChain { grid, inputs }
    }

    fn input(&self, i: usize) -> &ChainInput {
        &self.inputs[i % self.inputs.len()]
    }

    fn run(&self, input: &ChainInput) -> Result<ChainOutput, String> {
        let (dae, mix) = {
            let _s = telemetry::span(span::CIRCUIT_BUILD);
            build_chain(input)?
        };
        let sol = {
            let _s = telemetry::span(span::STEADY_HB);
            solve_hb(&dae, &self.grid, &HbOptions::default()).map_err(|e| e.to_string())?
        };
        Ok(ChainOutput { sol, mix })
    }

    fn check(&self, input: &ChainInput, out: &ChainOutput) -> Result<(), String> {
        check_products(input, out.mix, |k| out.sol.amplitude(out.mix, k))?;
        let iters = out.sol.stats.newton_iterations;
        if iters == 0 || iters >= HbOptions::default().max_newton {
            return Err(format!("Newton did not converge properly ({iters} iterations)"));
        }
        Ok(())
    }

    fn probe(
        &self,
        _input: &ChainInput,
        out: &ChainOutput,
        exact: bool,
        s: &mut Samples,
    ) -> Result<(), String> {
        if exact {
            let st = &out.sol.stats;
            s.push("steady.hb.newton_iters", st.newton_iterations as f64);
            s.push("steady.hb.gmres_iters", st.linear_iterations as f64);
            s.push("steady.hb.matvecs", st.matvecs as f64);
            s.push("steady.hb.precond_factorizations", st.precond_factorizations as f64);
        }
        Ok(())
    }
}

/// Checks the mixer node's products against the analytic mix
/// `(1+ε)·sin(ω_bb t)·sin(ω_lo t) + leak·sin(ω_lo t)`, given the
/// amplitude of each two-tone index `[k_bb, k_lo]`.
fn check_products(
    input: &ChainInput,
    mix: usize,
    amplitude: impl Fn(&[i32]) -> f64,
) -> Result<(), String> {
    let sideband = 0.5 * (1.0 + input.gain_error);
    for (k, want) in [([-1, 1], sideband), ([1, 1], sideband), ([0, 1], input.lo_leak)] {
        let got = amplitude(&k);
        // Errors are relative to the sideband, the node's signal scale.
        if !got.is_finite() || (got - want).abs() > PRODUCT_TOL * sideband {
            return Err(format!("mixer node {mix} product {k:?}: {got:.9e} V, want {want:.9e} V"));
        }
    }
    Ok(())
}

/// The mixer and ladder: a multiplier with the drawn gain error and LO
/// leak, then `STAGES` unity-gain transconductance sections, each with
/// a mild cubic compression and an RC pole a decade above the carrier.
fn build_chain(input: &ChainInput) -> Result<(CircuitDae, usize), String> {
    let gnd = Circuit::GROUND;
    let mut ckt = Circuit::new();
    let bb = ckt.node("bb_i");
    let lo = ckt.node("lo_i");
    let mix = ckt.node("mix");
    ckt.add(VSource::sine("VBI", bb, gnd, 0.0, 1.0, F_BB));
    ckt.add(VSource::sine_fast("VLI", lo, gnd, 0.0, 1.0, F_LO));
    // 1 mS into 1 kΩ: unity conversion gain before the error.
    ckt.add(Multiplier::new("MIX", mix, gnd, bb, gnd, lo, gnd, -1e-3 * (1.0 + input.gain_error)));
    ckt.add(Vccs::new("LEAK", mix, gnd, lo, gnd, -1e-3 * input.lo_leak));
    ckt.add(Resistor::new("RMIX", mix, gnd, 1e3).noiseless());
    let c_pole = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 10.0 * F_LO);
    let mut prev = mix;
    for k in 0..STAGES {
        let nk = ckt.node(&format!("st{k}"));
        ckt.add(Vccs::new(&format!("GM{k}"), nk, gnd, prev, gnd, -1e-3));
        ckt.add(Resistor::new(&format!("RL{k}"), nk, gnd, 1e3).noiseless());
        ckt.add(NonlinearConductance::new(&format!("NL{k}"), nk, gnd, 0.0, 2e-5));
        ckt.add(Capacitor::new(&format!("CP{k}"), nk, gnd, c_pole));
        prev = nk;
    }
    let dae = ckt.into_dae().map_err(|e| e.to_string())?;
    let mix = dae.node_index(mix).ok_or("mixer node is ground")?;
    Ok((dae, mix))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_products_fail_the_check() {
        let input = ChainInput { gain_error: 0.02, lo_leak: 1e-3 };
        let exact = |k: &[i32]| if k == [0, 1] { 1e-3 } else { 0.51 };
        assert!(check_products(&input, 2, exact).is_ok());
        let image_off = |k: &[i32]| match k {
            [0, 1] => 1e-3,
            [1, 1] => 0.51 * (1.0 + 1e-4),
            _ => 0.51,
        };
        assert!(check_products(&input, 2, image_off).is_err());
        assert!(check_products(&input, 2, |_| f64::NAN).is_err());
    }
}
