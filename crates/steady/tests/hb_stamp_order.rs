//! HB stamps every sample's `G` and `C` onto one shared pattern, each
//! stamp at the slot of its own position. A MOSFET whose drain and source
//! swap roles over the period pushes the same positions in another order,
//! so a map keyed on the stamp count alone would land those samples'
//! values in each other's slots, and Newton would stall on the wrong
//! Jacobian.

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
