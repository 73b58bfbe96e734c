#![warn(missing_docs)]
//! `rfsim` — an RF IC design and verification toolkit.
//!
//! A from-scratch Rust reproduction of the tool family described in
//! *"Tools and Methodology for RF IC Design"* (Dunlop, Demir, Feldmann,
//! Kapur, Long, Melville, Roychowdhury — DAC 1998, Bell Laboratories),
//! covering all four of the paper's pillars:
//!
//! - **Multi-scale circuit simulation** — harmonic balance with
//!   matrix-implicit Krylov solution ([`steady`]) and the MPDE family:
//!   MFDTD, hierarchical shooting, MMFT, and envelope following
//!   ([`mpde`]), on top of a SPICE-class MNA substrate ([`circuit`]);
//! - **Oscillator phase noise** — the nonlinear perturbation theory:
//!   autonomous shooting, Floquet/PPV analysis, Lorentzian spectra,
//!   linearly growing jitter, Monte Carlo validation ([`phasenoise`]);
//! - **Electromagnetic extraction** — method of moments with exact panel
//!   integrals, the kernel-independent IES³ compression, and a
//!   finite-difference volume solver for the Table-1 comparison ([`em`]);
//! - **Reduced-order modeling** — AWE, PVL, Arnoldi, PRIMA, passivity
//!   post-processing, and Padé-accelerated noise evaluation ([`rom`]).
//!
//! Everything sits on a self-contained numerics layer ([`numerics`]):
//! dense/sparse linear algebra, SVD/eigen solvers, GMRES, FFTs.
//!
//! # Quickstart
//!
//! Harmonic balance on a diode rectifier:
//!
//! ```
//! use rfsim::circuit::prelude::*;
//! use rfsim::steady::{solve_hb, HbOptions, SpectralGrid};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ckt = Circuit::new();
//! let inp = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.add(VSource::sine("V1", inp, Circuit::GROUND, 0.0, 1.0, 1e6));
//! ckt.add(Resistor::new("R1", inp, out, 1e3));
//! ckt.add(Diode::new("D1", out, Circuit::GROUND, 1e-14));
//! let dae = ckt.into_dae()?;
//!
//! let grid = SpectralGrid::single_tone(1e6, 7)?;
//! let sol = solve_hb(&dae, &grid, &HbOptions::default())?;
//! let out_idx = dae.node_index(out).expect("out is not ground");
//! // The rectifier generates a DC component and harmonics.
//! assert!(sol.amplitude(out_idx, &[0]) > 0.0);
//! # Ok(())
//! # }
//! ```

pub use rfsim_circuit as circuit;
pub use rfsim_em as em;
pub use rfsim_mpde as mpde;
pub use rfsim_numerics as numerics;
pub use rfsim_parallel as parallel;
pub use rfsim_phasenoise as phasenoise;
pub use rfsim_rom as rom;
pub use rfsim_steady as steady;
pub use rfsim_telemetry as telemetry;

/// Version of the toolkit.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!crate::VERSION.is_empty());
    }
}
