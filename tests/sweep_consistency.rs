//! Warm-vs-cold agreement for the sweep engines: warm-started
//! continuation (HB drive-level sweeps, the e03 shape) and build-once
//! subspace-recycled extraction (EM frequency sweeps, the e09 shape)
//! must reproduce cold point-by-point solves to solver tolerance — the
//! sweep paths share *work*, never accuracy.

use rfsim::circuit::prelude::*;
use rfsim::circuit::Circuit;
use rfsim::steady::{solve_hb, HbOptions, HbSweep, SpectralGrid};

/// Diode clipper driven at `amp` volts — nonlinearity grows with drive,
/// like the e03 mixer's drive-level sweep.
fn clipper(amp: f64) -> rfsim::circuit::CircuitDae {
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add(VSource::sine("V1", inp, Circuit::GROUND, 0.0, amp, 1e6));
    ckt.add(Resistor::new("R1", inp, out, 1e3));
    ckt.add(Diode::new("D1", out, Circuit::GROUND, 1e-13));
    ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 2e-10));
    ckt.into_dae().expect("valid clipper netlist")
}

#[test]
fn hb_amplitude_sweep_matches_cold_points() {
    let grid = SpectralGrid::single_tone(1e6, 7).unwrap();
    let opts = HbOptions::default();
    let daes: Vec<_> = [0.4, 0.7, 1.0, 1.3].iter().map(|&a| clipper(a)).collect();
    let mut sweep = HbSweep::new(&grid, &opts);
    for (i, dae) in daes.iter().enumerate() {
        let w = sweep.solve(dae).unwrap();
        let cold = solve_hb(dae, &grid, &opts).unwrap();
        let err = w.x.iter().zip(&cold.x).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        // Both converged to |residual|∞ < tol on the same equations; the
        // iterates themselves agree to a small multiple of it.
        assert!(err < 1e-6, "sweep point {i}: warm vs cold diverge by {err}");
    }
}

#[test]
fn em_frequency_sweep_matches_cold_points() {
    use rfsim::em::geom::spiral_panels;
    use rfsim::em::ies3::{CompressedMatrix, Ies3Options};
    use rfsim::em::inductor::SpiralInductor;
    use rfsim::em::mom::MomProblem;
    use rfsim::em::GreenFn;
    use rfsim::numerics::krylov::KrylovOptions;

    let sp = SpiralInductor::default();
    let freqs = [1e9, 4e9, 16e9];
    let swept = sp.extract_swept(2, 6, &freqs).unwrap();
    let segs = sp.segments();
    let panels = spiral_panels(&segs, 2, 0);
    for (&f, m) in freqs.iter().zip(&swept) {
        // Cold reference: rebuild the half-space matrix at this point's
        // image coefficient and solve from scratch.
        let k = sp.substrate_image_coefficient(f);
        let green = GreenFn::HalfSpace { eps_r: sp.eps_ox, z0: 0.0, k };
        let p = MomProblem::new(panels.clone(), green).unwrap();
        let cm = CompressedMatrix::build(&p.panels, &p.green, &Ies3Options::default()).unwrap();
        let (q, _) = p
            .solve_iterative(&cm, &[1.0], &KrylovOptions { tol: 1e-9, ..Default::default() })
            .unwrap();
        let cold = q.iter().sum::<f64>() / 2.0;
        assert!(
            (m.c_ox - cold).abs() <= 1e-4 * cold.abs(),
            "f = {f}: swept C_ox {} vs cold {cold}",
            m.c_ox
        );
    }
}
