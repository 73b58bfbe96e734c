//! The harmonic block preconditioner factors the non-negative half of
//! its bins on one shared sparse analysis. Counting one build's
//! factorizations needs the process-global telemetry counters to itself,
//! hence a test binary of its own.

use rfsim_circuit::prelude::*;
use rfsim_circuit::Circuit;
use rfsim_steady::hb::HbSolver;
use rfsim_steady::{solve_hb, HbHotPath, HbOptions, SpectralGrid};
use rfsim_telemetry as telemetry;

/// R1 (1 kΩ) into L1 (100 µH) at 1 MHz, 8 harmonics. At DC the
/// inductor's branch row has a zero diagonal, so the DC block alone
/// fails the analysis' pivots. The source has no offset, so the DC
/// operating point is the zero vector and factors nothing.
#[test]
fn rl_build_refactors_every_bin_but_dc() {
    let f0 = 1e6;
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let m = ckt.node("m");
    ckt.add(VSource::sine("V1", a, Circuit::GROUND, 0.0, 1.0, f0));
    ckt.add(Resistor::new("R1", a, m, 1e3));
    ckt.add(Inductor::new("L1", m, Circuit::GROUND, 100e-6));
    let dae = ckt.into_dae().unwrap();
    let grid = SpectralGrid::single_tone(f0, 8).unwrap();

    telemetry::set_mode(telemetry::Mode::Report);
    telemetry::reset();
    let (hot, counters) = telemetry::counted(|| HbHotPath::prepare(&dae, &grid));
    telemetry::set_mode(telemetry::Mode::Off);
    telemetry::reset();
    hot.expect("preconditioner builds");
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(count("hb.precond.factorizations"), 1, "{counters:?}");
    let full = count("lu.sparse.factorizations");
    assert!((1..=2).contains(&full), "{full} full sparse factorizations in one build");
    // Only the non-negative half of the spectrum is factored: 9 of 17 bins.
    assert_eq!(full + count("lu.sparse.refactorizations"), 9);
    assert_eq!(grid.samples(), 17);
    assert_eq!(count("lu.dense.factorizations"), 0, "{counters:?}");

    let gmres = solve_hb(&dae, &grid, &HbOptions::default()).unwrap();
    let direct =
        solve_hb(&dae, &grid, &HbOptions { solver: HbSolver::Direct, ..Default::default() })
            .unwrap();
    let mi = dae.node_index(m).unwrap();
    for k in 0..4 {
        let (g, d) = (gmres.amplitude(mi, &[k]), direct.amplitude(mi, &[k]));
        assert!((g - d).abs() < 1e-9, "k={k}: GMRES {g} vs direct {d}");
    }
    for (g, d) in gmres.x.iter().zip(&direct.x) {
        assert!((g - d).abs() < 1e-8, "{g} vs {d}");
    }
}
