//! HB on the real half-spectrum: the transforms pack unknowns `i` and
//! `i + ⌈n/2⌉` into one complex line, and the block preconditioner solves
//! only the non-negative half of the bins. These tests cover every
//! pairing shape (`n = 1`, even `n`, odd `n`) on one- and two-tone grids.
//!
//! Preconditioned GMRES iterates on `M⁻¹J = I + M⁻¹Δ`, where
//! `M = Ḡ + D·C̄` is the time-invariant part of the HB Jacobian and
//! `Δ = J − M` holds only the entries that vary over the period. The
//! fused-operator tests pin [`HbHotPath::fused_apply`] against the
//! two-step `M⁻¹·(J·v)`, at a time-varying linearization where `ΔG`
//! alone (a diode clipper) or `ΔC` too (a varactor) is non-empty, and at
//! the DC point, where `Δ` is empty.

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

/// A diode clipper driven hard enough to conduct: its conductance varies
/// over the period, its capacitance does not, so `ΔC` is empty.
fn clipper() -> CircuitDae {
    let g = Circuit::GROUND;
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let out = ckt.node("out");
    ckt.add(VSource::sine("V1", a, g, 0.0, 2.0, F_SLOW));
    ckt.add(Resistor::new("R1", a, out, 1e3));
    ckt.add(Diode::new("D1", out, g, 1e-14));
    ckt.add(Capacitor::new("C1", out, g, 1e-10));
    ckt.into_dae().unwrap()
}

/// R 1 kΩ into a varactor (c0 1 nF) ∥ 10 kΩ, driven at 1 ± 0.9 V: the
/// capacitance varies over the period, so `ΔC` is non-empty. With
/// `two_tone` a current source adds a second tone on the fast axis.
fn varactor(two_tone: bool) -> CircuitDae {
    let g = Circuit::GROUND;
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let out = ckt.node("out");
    ckt.add(VSource::sine("V1", a, g, 1.0, 0.9, F_SLOW));
    ckt.add(Resistor::new("R1", a, out, 1e3));
    ckt.add(Varactor::new("CV", g, out, 1e-9));
    ckt.add(Resistor::new("R2", out, g, 10e3));
    if two_tone {
        ckt.add(ISource::new("I2", g, out, Stimulus::sine_fast(0.0, 2e-4, F_FAST)));
    }
    ckt.into_dae().unwrap()
}

fn probe(len: usize) -> Vec<f64> {
    (0..len).map(|i| (0.37 * i as f64).sin() + 0.2).collect()
}

fn max_abs(v: impl Iterator<Item = f64>) -> f64 {
    v.fold(0.0, |m, x| m.max(x.abs()))
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
    let v = probe(nun);
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
/// solution within 1e-9 on a nonlinear circuit: a diode's conductance
/// varies over the period, a varactor's capacitance too.
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
    check_gmres_matches_direct(&single_tone(), &varactor(false));
}

#[test]
fn gmres_matches_direct_two_tone_every_pairing() {
    for n in [1, 2, 3, 4] {
        check_gmres_matches_direct(&two_tone(), &rc_chain(n, true, true));
    }
    check_gmres_matches_direct(&two_tone(), &varactor(true));
}

/// At the converged solution, the fused apply equals `M⁻¹·(J·v)` within
/// 1e-12 relative, and differs from `v`: `Δ` is non-empty there.
fn check_fused_matches_two_step(dae: &CircuitDae, grid: &SpectralGrid) {
    let sol = solve_hb(dae, grid, &HbOptions::default()).unwrap();
    let mut hot = HbHotPath::prepare_at(dae, grid, &sol.x).unwrap();
    let v = probe(hot.unknowns());
    let mut jv = vec![0.0; v.len()];
    let mut two_step = vec![0.0; v.len()];
    let mut fused = vec![0.0; v.len()];
    hot.matvec(&v, &mut jv);
    hot.precond_apply(&jv, &mut two_step).unwrap();
    hot.fused_apply(&v, &mut fused).unwrap();
    let scale = max_abs(two_step.iter().copied());
    let err = max_abs(fused.iter().zip(&two_step).map(|(f, t)| f - t));
    assert!(err <= 1e-12 * scale, "fused vs two-step: {err:e} of {scale:e}");
    let moved = max_abs(fused.iter().zip(&v).map(|(f, v)| f - v));
    assert!(moved > 1e-6 * scale, "Δ is empty at a time-varying linearization");
}

#[test]
fn fused_apply_matches_two_step_with_conductance_varying() {
    check_fused_matches_two_step(&clipper(), &single_tone());
}

#[test]
fn fused_apply_matches_two_step_with_capacitance_varying() {
    check_fused_matches_two_step(&varactor(false), &single_tone());
    check_fused_matches_two_step(&varactor(true), &two_tone());
}

/// At the DC operating point every sample linearizes alike, so each
/// entry's average is the entry itself, `Δ` is empty, and the fused
/// apply gives `v` back bit for bit.
#[test]
fn fused_apply_is_identity_at_dc() {
    for (dae, grid) in
        [(clipper(), single_tone()), (varactor(false), single_tone()), (varactor(true), two_tone())]
    {
        let mut hot = HbHotPath::prepare(&dae, &grid).unwrap();
        let v = probe(hot.unknowns());
        let mut y = vec![0.0; v.len()];
        hot.fused_apply(&v, &mut y).unwrap();
        for (i, (a, b)) in v.iter().zip(&y).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "entry {i}: {a} vs {b}");
        }
    }
}
