//! DC operating-point analysis: damped Newton–Raphson with gmin and
//! source-stepping continuation fallbacks.

use crate::dae::{Dae, TwoTime};
use crate::netlist::NodeId;
use crate::newton::Newton;
use crate::{Error, Result};
use rfsim_numerics::sparse::Triplets;
use rfsim_telemetry as telemetry;

/// Options of a Newton iteration: the DC operating point's, and the
/// per-step solves of transient and shooting.
#[derive(Debug, Clone, Copy)]
pub struct DcOptions {
    /// Absolute residual tolerance (A for node eqs, V for branch eqs).
    pub abstol: f64,
    /// Relative update tolerance.
    pub reltol: f64,
    /// Maximum Newton iterations per attempt.
    pub max_iters: usize,
    /// Number of gmin continuation steps used as a fallback.
    pub gmin_steps: usize,
    /// Number of source-stepping continuation steps used as a fallback.
    pub source_steps: usize,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions { abstol: 1e-12, reltol: 1e-9, max_iters: 100, gmin_steps: 10, source_steps: 10 }
    }
}

/// A converged DC solution.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// Solution vector (node voltages then branch currents).
    pub x: Vec<f64>,
    /// Newton iterations used (total across continuation steps).
    pub iterations: usize,
    nn: usize,
}

impl OperatingPoint {
    /// Voltage of a node (0 for ground).
    ///
    /// # Panics
    /// Panics if the node does not belong to the analyzed circuit.
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            assert!(node.index() - 1 < self.nn, "node outside circuit");
            self.x[node.index() - 1]
        }
    }
}

/// Solves `f(x) + gmin·x = b` (with `b` frozen at its DC value) in place
/// on the shared Newton kernel. `gmin` adds a conductance to every
/// diagonal (gmin stepping); a continuation that scales `b` passes the
/// scaled excitation (source stepping).
fn newton_dc(
    newton: &mut Newton,
    dae: &dyn Dae,
    x: &mut [f64],
    b: &[f64],
    opts: &DcOptions,
    gmin: f64,
) -> Result<usize> {
    let _span = telemetry::span("dc.newton");
    let n = dae.dim();
    let (mut f, mut q, mut c) = (vec![0.0; n], vec![0.0; n], Triplets::new(n, n));
    let solved = newton.solve(x, opts, |x, r, jac| {
        dae.eval(x, &mut f, &mut q, jac, &mut c);
        for i in 0..n {
            r[i] = f[i] - b[i] + gmin * x[i];
        }
        if gmin > 0.0 {
            for i in 0..n {
                jac.push(i, i, gmin);
            }
        }
        opts.abstol
    });
    let iterations = match &solved {
        Ok(it) | Err(Error::NewtonNoConvergence { iterations: it, .. }) => *it,
        Err(_) => 0,
    };
    telemetry::counter_add("dc.newton.iterations", iterations as u64);
    solved
}

/// Finds the DC operating point of a DAE.
///
/// Strategy: plain Newton from zero; on failure, gmin stepping (decade
/// reduction of an added node conductance); on failure, source stepping
/// (ramping `b` from 0 to 1). This is the standard SPICE escalation. All
/// three run on one [`Newton`] kernel, so the Jacobian is analysed once
/// (again when gmin stepping adds diagonal positions) and refactored on
/// every later iteration.
///
/// # Errors
/// [`Error::NewtonNoConvergence`] if every strategy fails.
pub fn dc_operating_point(dae: &dyn Dae, opts: &DcOptions) -> Result<OperatingPoint> {
    let _span = telemetry::span("dc.operating_point");
    telemetry::counter_add("dc.operating_point.solves", 1);
    let n = dae.dim();
    let mut b = vec![0.0; n];
    dae.eval_b(TwoTime::uni(0.0), &mut b);
    let mut newton = Newton::traced("dc.newton");
    // 1. Plain Newton.
    let mut x = vec![0.0; n];
    if let Ok(iterations) = newton_dc(&mut newton, dae, &mut x, &b, opts, 0.0) {
        return Ok(OperatingPoint { x, iterations, nn: n });
    }
    // 2. Gmin stepping: gmin from 1 down by decades, then 0.
    x.fill(0.0);
    let mut total = 0;
    let stepped = (0..=opts.gmin_steps).rev().all(|k| {
        let gmin = if k == 0 { 0.0 } else { 10f64.powi(-((opts.gmin_steps - k) as i32)) };
        newton_dc(&mut newton, dae, &mut x, &b, opts, gmin).map(|it| total += it).is_ok()
    });
    if stepped {
        return Ok(OperatingPoint { x, iterations: total, nn: n });
    }
    // 3. Source stepping.
    x.fill(0.0);
    let mut total = 0;
    for k in 1..=opts.source_steps {
        let frac = k as f64 / opts.source_steps as f64;
        let bk: Vec<f64> = b.iter().map(|v| v * frac).collect();
        total += newton_dc(&mut newton, dae, &mut x, &bk, opts, 0.0)?;
    }
    Ok(OperatingPoint { x, iterations: total, nn: n })
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::Circuit;

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(VSource::dc("V1", a, Circuit::GROUND, 10.0));
        ckt.add(Resistor::new("R1", a, b, 3e3));
        ckt.add(Resistor::new("R2", b, Circuit::GROUND, 1e3));
        let dae = ckt.into_dae().unwrap();
        let op = dc_operating_point(&dae, &DcOptions::default()).unwrap();
        assert!((op.voltage(b) - 2.5).abs() < 1e-9);
        assert!((op.voltage(a) - 10.0).abs() < 1e-12);
        // Source current = −10/4k … branch current flows a→ground externally:
        let i = op.x[dae.branch_index("V1", 0).unwrap()];
        assert!((i + 10.0 / 4e3).abs() < 1e-9, "i = {i}");
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        ckt.add(ISource::dc("I1", Circuit::GROUND, n, 1e-3));
        ckt.add(Resistor::new("R1", n, Circuit::GROUND, 2e3));
        let dae = ckt.into_dae().unwrap();
        let op = dc_operating_point(&dae, &DcOptions::default()).unwrap();
        assert!((op.voltage(n) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn diode_forward_drop() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let d = ckt.node("d");
        ckt.add(VSource::dc("V1", a, Circuit::GROUND, 5.0));
        ckt.add(Resistor::new("R1", a, d, 1e3));
        ckt.add(Diode::new("D1", d, Circuit::GROUND, 1e-14));
        let dae = ckt.into_dae().unwrap();
        let op = dc_operating_point(&dae, &DcOptions::default()).unwrap();
        let vd = op.voltage(d);
        assert!(vd > 0.55 && vd < 0.85, "vd = {vd}");
        // KCL check: resistor current equals diode current.
        let ir = (5.0 - vd) / 1e3;
        let id = 1e-14 * ((vd / crate::VT_300K).exp() - 1.0);
        assert!((ir - id).abs() / ir < 1e-6);
    }

    #[test]
    fn bjt_common_emitter_bias() {
        let mut ckt = Circuit::new();
        let vcc = ckt.node("vcc");
        let vc = ckt.node("vc");
        let vb = ckt.node("vb");
        ckt.add(VSource::dc("VCC", vcc, Circuit::GROUND, 5.0));
        ckt.add(Resistor::new("RC", vcc, vc, 1e3));
        ckt.add(Resistor::new("RB", vcc, vb, 430e3));
        ckt.add(Bjt::npn("Q1", vc, vb, Circuit::GROUND, 1e-16, 100.0));
        let dae = ckt.into_dae().unwrap();
        let op = dc_operating_point(&dae, &DcOptions::default()).unwrap();
        let vb_v = op.voltage(vb);
        let vc_v = op.voltage(vc);
        // Base around 0.7–0.8 V; collector pulled down from 5 V but above sat.
        assert!(vb_v > 0.6 && vb_v < 0.95, "vb = {vb_v}");
        assert!(vc_v < 5.0 && vc_v > 0.2, "vc = {vc_v}");
        // Ic ≈ beta·Ib.
        let ib = (5.0 - vb_v) / 430e3;
        let ic = (5.0 - vc_v) / 1e3;
        let beta = ic / ib;
        assert!(beta > 80.0 && beta < 120.0, "beta = {beta}");
    }

    #[test]
    fn mosfet_inverter_logic() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        let inp = ckt.node("in");
        ckt.add(VSource::dc("VDD", vdd, Circuit::GROUND, 3.0));
        ckt.add(VSource::dc("VIN", inp, Circuit::GROUND, 3.0));
        ckt.add(Resistor::new("RL", vdd, out, 10e3));
        ckt.add(Mosfet::nmos("M1", out, inp, Circuit::GROUND, 0.7, 5e-3));
        let dae = ckt.into_dae().unwrap();
        let op = dc_operating_point(&dae, &DcOptions::default()).unwrap();
        // Strong drive → output pulled low.
        assert!(op.voltage(out) < 0.3, "vout = {}", op.voltage(out));
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(VSource::dc("V1", a, Circuit::GROUND, 1.0));
        ckt.add(Inductor::new("L1", a, b, 1e-9));
        ckt.add(Resistor::new("R1", b, Circuit::GROUND, 50.0));
        let dae = ckt.into_dae().unwrap();
        let op = dc_operating_point(&dae, &DcOptions::default()).unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-9);
        let il = op.x[dae.branch_index("L1", 0).unwrap()];
        assert!((il - 0.02).abs() < 1e-9);
    }
}
