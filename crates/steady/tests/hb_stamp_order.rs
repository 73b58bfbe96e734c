//! HB stamps every sample's `G` and `C` onto one shared pattern, each
//! stamp at the slot of its own position, and so does the Newton kernel
//! of DC and transient. A MOSFET whose drain and source swap roles over
//! the period pushes the same positions in another order, so a map keyed
//! on the stamp count alone would land those samples' values in each
//! other's slots, and Newton would stall on the wrong Jacobian.

use rfsim_circuit::dae::CircuitDae;
use rfsim_circuit::prelude::*;
use rfsim_circuit::Circuit;
use rfsim_steady::hb::HbSolver;
use rfsim_steady::{solve_hb, HbOptions, HbSolution, SpectralGrid};

/// A pass-gate NMOS: the drain driven at 1 ± 1 V, 1 MHz, the gate at 3 V
/// DC, the source into 10 kΩ ∥ 1 nF. Over the half-period where the
/// drain dips below the source, the device conducts the other way and
/// swaps its stamp order.
fn pass_gate() -> CircuitDae {
    let f0 = 1e6;
    let g = Circuit::GROUND;
    let mut ckt = Circuit::new();
    let d = ckt.node("d");
    let gate = ckt.node("g");
    let s = ckt.node("s");
    ckt.add(VSource::sine("VD", d, g, 1.0, 1.0, f0));
    ckt.add(VSource::dc("VG", gate, g, 3.0));
    ckt.add(Mosfet::nmos("M1", d, gate, s, 0.7, 1e-3));
    ckt.add(Resistor::new("RS", s, g, 10e3));
    ckt.add(Capacitor::new("CS", s, g, 1e-9));
    ckt.into_dae().unwrap()
}

fn solve(dae: &CircuitDae, grid: &SpectralGrid, solver: HbSolver) -> HbSolution {
    let sol = solve_hb(dae, grid, &HbOptions { solver, ..Default::default() })
        .unwrap_or_else(|e| panic!("{solver:?}: {e}"));
    let iters = sol.stats.newton_iterations;
    assert!(iters <= 6, "{solver:?} took {iters} Newton iterations");
    sol
}

#[test]
fn swapping_mosfet_converges_with_gmres_and_direct() {
    let dae = pass_gate();
    let grid = SpectralGrid::single_tone(1e6, 8).unwrap();
    let gmres = solve(&dae, &grid, HbSolver::Gmres { precondition: true });
    let direct = solve(&dae, &grid, HbSolver::Direct);
    for (i, (g, d)) in gmres.x.iter().zip(&direct.x).enumerate() {
        assert!((g - d).abs() < 1e-9, "entry {i}: GMRES {g} vs direct {d}");
    }
}

/// The Newton kernel behind DC and transient keys its Jacobian pattern
/// on positions too: a transient through the swap converges in a few
/// iterations per step, and its settled period lands on HB's samples.
#[test]
fn swapping_mosfet_converges_in_dc_and_transient() {
    let dae = pass_gate();
    let op = dc_operating_point(&dae, &DcOptions::default()).unwrap();
    assert!(op.iterations <= 10, "DC took {} Newton iterations", op.iterations);
    let (f0, periods, steps) = (1e6, 40, 200);
    let opts = TranOptions { dt: 1.0 / (f0 * steps as f64), ..Default::default() };
    let tran = transient(&dae, 0.0, periods as f64 / f0, &opts).unwrap();
    let per_step = tran.newton_iterations as f64 / (periods * steps) as f64;
    assert!(per_step <= 3.0, "{per_step} Newton iterations per step");
    let grid = SpectralGrid::single_tone(f0, 8).unwrap();
    let hb = solve(&dae, &grid, HbSolver::Gmres { precondition: true });
    // The last period, linearly interpolated at HB's samples: about
    // 1e-4 V off at 200 steps a period.
    let t0 = (periods - 1) as f64 / f0;
    // The node voltages come first, in the order the nodes were made.
    for (i, node) in ["d", "g", "s"].into_iter().enumerate() {
        assert_eq!(dae.unknown_name(i), format!("v({node})"));
        let settled = tran.resample(i, t0, t0 + 1.0 / f0, grid.samples());
        for (t, h) in settled.iter().zip(hb.waveform(i)) {
            assert!((t - h).abs() < 1e-3, "v({node}): transient {t} vs HB {h}");
        }
    }
}
