//! HB on the real half-spectrum: the transforms pack unknowns `i` and
//! `i + ⌈n/2⌉` into one complex line, and the block preconditioner solves
//! only the non-negative half of the bins. These tests cover every
//! pairing shape (`n = 1`, even `n`, odd `n`) on one- and two-tone grids.

use rfsim_circuit::dae::CircuitDae;
use rfsim_circuit::prelude::*;
use rfsim_circuit::waveform::Stimulus;
use rfsim_circuit::Circuit;
use rfsim_steady::hb::HbSolver;
use rfsim_steady::{solve_hb, HbHotPath, HbOptions, SpectralGrid, ToneAxis};

const F_SLOW: f64 = 1e6;
const F_FAST: f64 = 37e6;

fn single_tone() -> SpectralGrid {
    SpectralGrid::single_tone(F_SLOW, 6).unwrap()
}

fn two_tone() -> SpectralGrid {
    SpectralGrid::two_tone(ToneAxis::new(F_SLOW, 2), ToneAxis::new(F_FAST, 2)).unwrap()
}

/// An RC chain with exactly `n` unknowns (node voltages only): current
/// sources drive node 1 (one on each axis of a two-tone grid), each node
/// has its own capacitor to ground and a resistor to the next, and the
/// last node a resistor to ground. `diode` puts a diode across the last
/// node, which makes the circuit nonlinear.
fn rc_chain(n: usize, two_tone: bool, diode: bool) -> CircuitDae {
    let mut ckt = Circuit::new();
    let nodes: Vec<_> = (0..n).map(|i| ckt.node(&format!("n{i}"))).collect();
    let g = Circuit::GROUND;
    ckt.add(ISource::sine("I1", g, nodes[0], 0.0, 2e-3, F_SLOW));
    if two_tone {
        ckt.add(ISource::new("I2", g, nodes[0], Stimulus::sine_fast(1e-4, 1e-3, F_FAST)));
    }
    ckt.add(Resistor::new("R0", nodes[0], g, 2e3));
    for (i, w) in nodes.windows(2).enumerate() {
        ckt.add(Resistor::new(&format!("R{}", i + 1), w[0], w[1], 300.0 + 150.0 * i as f64));
    }
    for (i, &node) in nodes.iter().enumerate() {
        ckt.add(Capacitor::new(&format!("C{i}"), node, g, 1e-10 * (1.0 + i as f64)));
    }
    ckt.add(Resistor::new("RL", nodes[n - 1], g, 1e3));
    if diode {
        ckt.add(Diode::new("D1", nodes[n - 1], g, 1e-14));
    }
    let dae = ckt.into_dae().unwrap();
    assert_eq!(dae.dim(), n);
    dae
}

/// Five unknowns with branch currents: a voltage source into an R–L–C
/// section (node voltages `a`, `m`, `out`, plus the source's and the
/// inductor's currents). The inductor's branch row has a zero diagonal
/// at DC, so that bin falls back to a factorization of its own.
fn rlc_section(two_tone: bool) -> CircuitDae {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let m = ckt.node("m");
    let out = ckt.node("out");
    let g = Circuit::GROUND;
    let stim = if two_tone {
        Stimulus::sine_fast(0.1, 0.5, F_FAST)
    } else {
        Stimulus::sine(0.1, 0.5, F_SLOW)
    };
    ckt.add(VSource::new("V1", a, g, stim));
    ckt.add(Resistor::new("R1", a, m, 50.0));
    ckt.add(Inductor::new("L1", m, out, 1e-6));
    ckt.add(Capacitor::new("C1", out, g, 2e-10));
    ckt.add(Resistor::new("R2", out, g, 1e3));
    let dae = ckt.into_dae().unwrap();
    assert_eq!(dae.dim(), 5);
    dae
}

/// The circuits of both tests: `n = 1…4` as RC chains, 5 as the RLC
/// section.
fn linear_cases(two_tone: bool) -> Vec<CircuitDae> {
    let mut cases: Vec<_> = (1..=4).map(|n| rc_chain(n, two_tone, false)).collect();
    cases.push(rlc_section(two_tone));
    cases
}

/// On a linear time-invariant circuit every sample has the same
/// linearization, so the block-diagonal preconditioner is the exact
/// inverse of the HB Jacobian: `M⁻¹·J·v` must give `v` back. A wrong
/// split of the packed spectrum, or a bin `−k` left unwritten, breaks
/// that at once.
fn check_precond_inverts_jacobian(grid: &SpectralGrid, dae: &CircuitDae) {
    let mut hot = HbHotPath::prepare(dae, grid).unwrap();
    let nun = hot.unknowns();
    let v: Vec<f64> = (0..nun).map(|i| (0.37 * i as f64).sin() + 0.2).collect();
    let mut jv = vec![0.0; nun];
    let mut back = vec![0.0; nun];
    hot.matvec(&v, &mut jv);
    hot.precond_apply(&jv, &mut back).unwrap();
    for (i, (a, b)) in v.iter().zip(&back).enumerate() {
        assert!((a - b).abs() < 1e-9, "n={} entry {i}: {a} vs {b}", nun / grid.samples());
    }
}

#[test]
fn precond_inverts_a_linear_jacobian_single_tone() {
    for dae in linear_cases(false) {
        check_precond_inverts_jacobian(&single_tone(), &dae);
    }
}

#[test]
fn precond_inverts_a_linear_jacobian_two_tone() {
    for dae in linear_cases(true) {
        check_precond_inverts_jacobian(&two_tone(), &dae);
    }
}

/// Preconditioned GMRES and the dense direct solve reach the same
/// solution within 1e-9 on a nonlinear circuit.
fn check_gmres_matches_direct(grid: &SpectralGrid, dae: &CircuitDae) {
    let n = dae.dim();
    let gmres = solve_hb(dae, grid, &HbOptions::default()).unwrap();
    let direct =
        solve_hb(dae, grid, &HbOptions { solver: HbSolver::Direct, ..Default::default() }).unwrap();
    for (i, (g, d)) in gmres.x.iter().zip(&direct.x).enumerate() {
        assert!((g - d).abs() < 1e-9, "n={n} entry {i}: GMRES {g} vs direct {d}");
    }
}

#[test]
fn gmres_matches_direct_single_tone_every_pairing() {
    for n in [1, 2, 3, 4] {
        check_gmres_matches_direct(&single_tone(), &rc_chain(n, false, true));
    }
}

#[test]
fn gmres_matches_direct_two_tone_every_pairing() {
    for n in [1, 2, 3, 4] {
        check_gmres_matches_direct(&two_tone(), &rc_chain(n, true, true));
    }
}
